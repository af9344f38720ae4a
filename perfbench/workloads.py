"""The benchmark's three workloads: seeded inputs, one timed pass of
program work, and untimed checks of every output a pass wrote.

Each workload drives the ``shiftlab`` command line in-process through
``shiftlab.cli.main`` (one config file and one output directory per job)
and, for the classifier probes, the public ``series_probe`` API.  The
program receives only the generated configs; the dead ``seed`` and
``workers`` config keys are never passed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from shiftlab import cli, criterion
from shiftlab.constructor import build_vector, canonical_targets
from shiftlab.seqspace import lp
from shiftlab.shiftops import ConstantWeight

import oracles as orc

# Work sizes.  FULL is what the benchmark measures; TINY keeps every job
# and every output but shrinks horizons and series lengths, for the
# smoke test of the benchmark's own code.
FULL = {
    "max_exp": 20,
    "sweep_p": range(1, 11),
    "sweep_q": range(1, 12),
    "construct_horizon": 10**5,
    "bergman_horizon": 10**4,
    "orbit_horizon": 10**4,
    "candidate_horizon": 10**4,
    "density_horizon": 10**6,
    "jsets_horizon": 10**6,
}
TINY = {
    "max_exp": 12,
    "sweep_p": range(1, 3),
    "sweep_q": range(1, 4),
    "construct_horizon": 2000,
    "bergman_horizon": 400,
    "orbit_horizon": 600,
    "candidate_horizon": 600,
    "density_horizon": 10**4,
    "jsets_horizon": 10**4,
}

SAMPLE_CHECKS = 64  # independently recomputed orbit values per job and pass
VALUE_RTOL = 1e-7


@dataclass
class Outcome:
    """What one operation of a pass returned."""

    name: str
    code: int | None = None  # CLI exit code
    value: object = None  # API return value
    stdout: str = ""
    error: str | None = None  # exception text
    seconds: float = 0.0  # wall time of the call


@dataclass
class Checked:
    """Untimed verdict on one pass's outcomes."""

    attempted: int = 0
    failed: list = field(default_factory=list)  # (op, reason)
    wrong: list = field(default_factory=list)  # names of wrong verdicts
    bad_sums: list = field(default_factory=list)
    eq33_violations: dict = field(default_factory=dict)  # op -> count
    check_errors: list = field(default_factory=list)  # outputs that disagree with an oracle
    fingerprint: dict = field(default_factory=dict)

    def fail(self, op, reason):
        self.failed.append((op, reason))


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def read_csv(path: str) -> tuple[list, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{os.path.basename(path)} is empty")
    return rows[0], rows[1:]


class Workload:
    """Base: a work directory with one subdirectory per job."""

    name = ""

    def __init__(self, seed: int, workdir: str, sizes: dict = FULL):
        self.seed = int(seed)
        self.sizes = sizes
        self.workdir = workdir
        self.rng = np.random.default_rng(self.seed)
        self.jobs = {}  # op name -> (scenario, job dir)
        self.setup()

    # -- inputs --------------------------------------------------------
    def setup(self):
        raise NotImplementedError

    def add_job(self, op: str, scenario: str, config: dict):
        job_dir = os.path.join(self.workdir, op)
        os.makedirs(job_dir, exist_ok=True)
        cfg = dict(config, scenario=scenario)
        with open(os.path.join(job_dir, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.jobs[op] = (scenario, job_dir)

    # -- timed work ----------------------------------------------------
    def clear_outputs(self):
        """Remove the previous pass's outputs so a missing file shows."""
        for _, job_dir in self.jobs.values():
            for entry in os.listdir(job_dir):
                if entry != "config.json":
                    os.unlink(os.path.join(job_dir, entry))

    def run_cli(self, op: str) -> Outcome:
        scenario, job_dir = self.jobs[op]
        buf = io.StringIO()
        out = Outcome(op)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                out.code = cli.main(
                    [scenario, "--config", os.path.join(job_dir, "config.json"),
                     "--out", job_dir]
                )
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            out.error = f"{type(exc).__name__}: {exc}"
        out.seconds = time.perf_counter() - t0
        out.stdout = buf.getvalue()
        return out

    def run_pass(self, on_op=None) -> list[Outcome]:
        """One pass of program work; ``on_op`` is told each op's name first."""
        outs = []
        for op in self.jobs:
            if on_op:
                on_op(op)
            outs.append(self.run_cli(op))
        return outs

    # -- untimed checks ------------------------------------------------
    def check(self, outcomes: list[Outcome]) -> Checked:
        raise NotImplementedError

    def job_file(self, op: str, name: str) -> str:
        return os.path.join(self.jobs[op][1], name)

    def cli_ok(self, res: Checked, out: Outcome, allowed=(0, 2)) -> bool:
        """Count the op; false (and a failure) on a crash or usage error."""
        res.attempted += 1
        if out.error is not None:
            res.fail(out.name, out.error)
            return False
        if out.code not in allowed:
            res.fail(out.name, f"exit code {out.code}")
            return False
        return True


# ---------------------------------------------------------------------------
# criterion-grid
# ---------------------------------------------------------------------------


def _overall(kinds) -> str:
    """The criterion's overall rule, read back from its per-series CSV."""
    if any(k == orc.DIVERGES for k in kinds):
        return orc.FAILS
    if kinds and all(k == orc.CONVERGES for k in kinds):
        return orc.SATISFIES
    return orc.INCONCLUSIVE


def p_series(s):
    return lambda ns: np.asarray(ns, dtype=float) ** -s


def bertrand(b):
    # term n is f(n + 1), f(x) = 1 / (x ln^b x): the series starts at x = 2
    def mags(ns):
        x = np.asarray(ns, dtype=float) + 1.0
        return 1.0 / (x * np.log(x) ** b)

    return mags


class CriterionGrid(Workload):
    name = "criterion-grid"

    def setup(self):
        sz = self.sizes
        indices = [1, 2, 3, 4, 5]
        for q in (1, 2):
            self.add_job(
                f"criterion bergman q={q}", "criterion",
                {"space": {"kind": "lp", "p": 2}, "weights": {"family": "Bergman"},
                 "q": q, "indices": indices, "max_exp": sz["max_exp"]},
            )
        sites = self.rng.choice(np.arange(-8, 9), size=3, replace=False)
        values = self.rng.uniform(0.5, 2.0, size=3)
        self.table = {str(int(k)): float(v) for k, v in zip(sites, values)}
        self.add_job(
            "criterion bilateral q=1", "criterion",
            {"space": {"kind": "lp", "p": 2, "domain": "bilateral"},
             "weights": {"family": "BilateralTable", "entries": self.table,
                         "default_pos": 2.0, "default_nonpos": 0.5},
             "q": 1, "indices": [-2, -1, 0, 1, 2], "max_exp": sz["max_exp"]},
        )
        self.sweep_p = list(sz["sweep_p"])
        self.sweep_q = list(sz["sweep_q"])
        self.add_job(
            "sweep rootweight", "sweep",
            {"grid": [{"family": "RootWeight", "p": p} for p in self.sweep_p],
             "q_values": self.sweep_q, "mode": "offsets", "max_exp": sz["max_exp"]},
        )
        self.probes = [
            (f"probe p-series s={s:g}", p_series(s), orc.p_series_expected(s))
            for s in orc.P_SERIES
        ] + [
            (f"probe bertrand b={b:g}", bertrand(b), orc.bertrand_expected(b))
            for b in orc.BERTRAND_EXPONENTS
        ]
        self.expected = {
            "criterion bergman q=1": orc.bergman_verdict(1),
            "criterion bergman q=2": orc.bergman_verdict(2),
            "criterion bilateral q=1": orc.SATISFIES,
        }
        self.space_l1 = lp(1)

    def run_pass(self, on_op=None):
        outs = super().run_pass(on_op)
        for op, mags, _ in self.probes:
            if on_op:
                on_op(op)
            out = Outcome(op)
            t0 = time.perf_counter()
            try:
                out.value = criterion.series_probe(
                    self.space_l1, magnitudes=mags, max_exp=self.sizes["max_exp"]
                )
            except Exception as exc:
                out.error = f"{type(exc).__name__}: {exc}"
            out.seconds = time.perf_counter() - t0
            outs.append(out)
        return outs

    def check(self, outcomes):
        res = Checked()
        fp = res.fingerprint
        for out in outcomes:
            op = out.name
            if op.startswith("criterion"):
                if not self.cli_ok(res, out):
                    continue
                try:
                    header, rows = read_csv(self.job_file(op, "criterion.csv"))
                    if header != ["series", "verdict", "rule", "sum_estimate"] or len(rows) != 10:
                        raise ValueError(f"criterion.csv shape {header} x {len(rows)}")
                    kinds = [r[1] for r in rows]
                    if not set(kinds) <= {orc.CONVERGES, orc.DIVERGES, orc.INCONCLUSIVE}:
                        raise ValueError(f"unknown verdicts {sorted(set(kinds))}")
                    for r in rows:
                        if r[3]:
                            float(r[3])
                except (OSError, ValueError, IndexError) as exc:
                    res.fail(op, f"malformed output: {exc}")
                    continue
                overall = _overall(kinds)
                if (out.code == 0) != (overall == orc.SATISFIES):
                    res.fail(op, f"exit code {out.code} disagrees with overall {overall}")
                    continue
                if orc.verdict_wrong(overall, self.expected[op]):
                    res.wrong.append(op)
                fp[f"{op} overall"] = overall
                fp[f"{op} rules"] = "|".join(f"{r[1]}:{r[2]}" for r in rows)
                fp[f"{op} csv"] = sha256_file(self.job_file(op, "criterion.csv"))
            elif op.startswith("sweep"):
                if not self.cli_ok(res, out, allowed=(0,)):
                    continue
                try:
                    header, rows = read_csv(self.job_file(op, "sweep.csv"))
                    if header != ["weights"] + [f"q={q}" for q in self.sweep_q]:
                        raise ValueError(f"sweep.csv header {header}")
                    if [r[0] for r in rows] != [f"rootweight(p={p})" for p in self.sweep_p]:
                        raise ValueError("sweep.csv rows do not match the grid")
                    cells = {}
                    for p, r in zip(self.sweep_p, rows):
                        for q, v in zip(self.sweep_q, r[1:], strict=True):
                            if v not in (orc.SATISFIES, orc.FAILS, orc.INCONCLUSIVE):
                                raise ValueError(f"unknown verdict {v!r}")
                            cells[(p, q)] = v
                except (OSError, ValueError, IndexError) as exc:
                    res.fail(op, f"malformed output: {exc}")
                    continue
                for (p, q), v in cells.items():
                    if orc.verdict_wrong(v, orc.rootweight_verdict(p, q)):
                        res.wrong.append(f"sweep rootweight(p={p}) q={q}")
                fp[f"{op} cells"] = "".join(v[0] for v in cells.values())
                fp[f"{op} csv"] = sha256_file(self.job_file(op, "sweep.csv"))
            else:
                res.attempted += 1
                if out.error is not None:
                    res.fail(op, out.error)
                    continue
                v = out.value
                expected_kind, reference = dict((n, e) for n, _, e in self.probes)[op]
                if orc.verdict_wrong(v.kind, expected_kind):
                    res.wrong.append(op)
                if orc.sum_bad(v.kind, v.sum_estimate, reference):
                    res.bad_sums.append(op)
                fp[f"{op} verdict"] = f"{v.kind}:{v.rule}"
                fp[f"{op} sum"] = repr(v.sum_estimate)
        return res


# ---------------------------------------------------------------------------
# construct-verify
# ---------------------------------------------------------------------------

_SUMMARY = re.compile(
    r"Nseq=\(([\d, ]*)\) support=(\d+) checks=(\d+) edge_times=(\d+) violations=(\d+)"
)


def log_prefix(family: str, lam: complex, n: np.ndarray):
    """Closed-form log-polar prefix products P(n) = log(w_1...w_n)."""
    n = np.asarray(n, dtype=float)
    if family == "Constant":
        return n * math.log(abs(lam)), n * math.atan2(lam.imag, lam.real)
    return 0.5 * np.log(n + 1.0), np.zeros_like(n)  # Bergman: sqrt(n+1)


def backward_orbit(idx, lm, ph, family, lam, steps):
    """Coefficients of B_w^steps x for x given in log-polar form:
    (B^s x)_i = x_{i+s} * exp(P(i+s) - P(i)), for i >= 1."""
    keep = idx > steps
    j = idx[keep]
    pl_j, pp_j = log_prefix(family, lam, j)
    pl_i, pp_i = log_prefix(family, lam, j - steps)
    mag = np.exp(lm[keep] + pl_j - pl_i)
    return j - steps, mag * np.exp(1j * (ph[keep] + pp_j - pp_i))


def space_norm(kind: str, values: np.ndarray) -> float:
    a = np.abs(values)
    if kind == "c0":
        return float(a.max(initial=0.0))
    return float(np.sqrt(np.sum(a * a)))


def distance_to(kind, idx, vals, target: dict) -> float:
    """F-norm of (vector given by idx/vals) minus a finitely supported target."""
    vals = vals.astype(complex)
    pos = {int(i): k for k, i in enumerate(idx)}
    extra = []
    for t, c in target.items():
        if t in pos:
            vals[pos[t]] -= c
        else:
            extra.append(-c)
    return space_norm(kind, np.concatenate([vals, np.asarray(extra, dtype=complex)]))


def read_candidate(path: str):
    header, rows = read_csv(path)
    if header != ["index", "re", "im"]:
        raise ValueError(f"candidate.csv header {header}")
    idx = np.array([int(r[0]) for r in rows], dtype=np.int64)
    z = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    return idx, z


class ConstructVerify(Workload):
    name = "construct-verify"

    def setup(self):
        sz = self.sizes
        theta = float(self.rng.uniform(0.0, 2.0 * math.pi))
        self.lam = 2.0 * complex(math.cos(theta), math.sin(theta))
        # (op, family, space kind, q, k, horizon)
        self.specs = [
            ("construct constant-l2-k5", "Constant", "lp", 1, 5, sz["construct_horizon"]),
            ("construct constant-c0-k3", "Constant", "c0", 1, 3, sz["construct_horizon"]),
            ("construct bergman-l2-q2-k3", "Bergman", "lp", 2, 3, sz["bergman_horizon"]),
        ]
        for op, family, kind, q, k, horizon in self.specs:
            weights = {"family": family}
            if family == "Constant":
                weights["value"] = repr(self.lam)  # complex() parses it back
            space = {"kind": "lp", "p": 2} if kind == "lp" else {"kind": "c0"}
            self.add_job(op, "construct",
                         {"space": space, "weights": weights, "q": q, "k": k,
                          "horizon": horizon})
        # targets x_k as plain dicts: inputs to the independent checks
        self.targets = [
            {i: complex(c) for i, c in x.entries.items()} for x in canonical_targets(5)
        ]

    def check(self, outcomes):
        res = Checked()
        fp = res.fingerprint
        spec = {s[0]: s for s in self.specs}
        for out in outcomes:
            op = out.name
            if not self.cli_ok(res, out):
                continue
            _, family, kind, q, k, _ = spec[op]
            if "construction refused" in out.stdout:
                # the criterion holds for every job here (see oracles.py)
                res.wrong.append(op)
                fp[f"{op} refused"] = True
                continue
            try:
                m = _SUMMARY.search(out.stdout)
                if m is None:
                    raise ValueError("summary line missing")
                nseq = m.group(1)
                support, n_checks, n_edges, n_viol = (int(g) for g in m.groups()[1:])
                idx, z = read_candidate(self.job_file(op, "candidate.csv"))
                header, rows = read_csv(self.job_file(op, "eq33.csv"))
                if header != ["class", "m", "error", "bound", "ok"]:
                    raise ValueError(f"eq33.csv header {header}")
                cls = np.array([int(r[0]) for r in rows], dtype=np.int64)
                ms = np.array([int(r[1]) for r in rows], dtype=np.int64)
                err = np.array([float(r[2]) for r in rows])
                bound = np.array([float(r[3]) for r in rows])
                ok = [r[4] for r in rows]
                if not set(ok) <= {"True", "False"}:
                    raise ValueError("eq33.csv ok column is not boolean")
            except (OSError, ValueError, IndexError) as exc:
                res.fail(op, f"malformed output: {exc}")
                continue
            ok = np.array([v == "True" for v in ok], dtype=bool)
            viol = int((~ok).sum())
            consistent = (
                support == len(idx) and n_checks == len(rows) and n_viol == viol
                and bool(np.all(ok == (err <= bound)))
                and (out.code == 2) == (viol > 0)
            )
            if not consistent:
                res.fail(op, "summary, CSV files and exit code disagree")
                continue
            res.eq33_violations[op] = viol
            target_norm = np.array(
                [space_norm(kind, np.array(list(self.targets[c - 1].values())))
                 for c in range(1, k + 1)]
            )
            vacuous = int(np.sum(bound >= target_norm[cls - 1])) if len(cls) else 0
            self._recheck(res, op, family, kind, q, idx, z, cls, ms, err)
            fp[f"{op} Nseq"] = nseq
            fp[f"{op} support"] = support
            fp[f"{op} checks"] = n_checks
            fp[f"{op} violations"] = viol
            fp[f"{op} edges"] = n_edges
            fp[f"{op} vacuous"] = vacuous
            fp[f"{op} candidate csv"] = sha256_file(self.job_file(op, "candidate.csv"))
            fp[f"{op} eq33 csv"] = sha256_file(self.job_file(op, "eq33.csv"))
        return res

    def _recheck(self, res, op, family, kind, q, idx, z, cls, ms, err):
        """Recompute sampled return-bound errors from the written candidate
        with closed-form prefix products."""
        if not len(ms):
            return
        nz = z != 0
        idx, lm, ph = idx[nz], np.log(np.abs(z[nz])), np.angle(z[nz])
        rng = np.random.default_rng([self.seed, len(ms)])
        for r in rng.choice(len(ms), size=min(SAMPLE_CHECKS, len(ms)), replace=False):
            steps = int(ms[r]) ** q
            oi, ov = backward_orbit(idx, lm, ph, family, self.lam, steps)
            mine = distance_to(kind, oi, ov, self.targets[int(cls[r]) - 1])
            if abs(mine - err[r]) > VALUE_RTOL * max(1.0, mine):
                res.check_errors.append(
                    f"{op}: error at m={int(ms[r])} is {err[r]!r}, recomputed {mine!r}"
                )
                return


# ---------------------------------------------------------------------------
# orbit-density
# ---------------------------------------------------------------------------

_HITS = re.compile(r": (\d+) hits, density ([^,]+),")
_DENSITY = re.compile(r"lower-density estimate (\S+) \(burn-in (\d+), (\d+) hit times")


class OrbitDensity(Workload):
    name = "orbit-density"

    def setup(self):
        sz = self.sizes
        # the candidate of the return-bound construction: Constant(2), k=3
        plan = build_vector(lp(2), ConstantWeight(2), 1, canonical_targets(3),
                            horizon=sz["candidate_horizon"])
        self.radius = 3.0 * plan.alpha(3)
        entries = dict(plan.candidate.entries)
        self.cand_idx = np.array(list(entries), dtype=np.int64)
        cz = np.array(list(entries.values()))
        self.cand_lm, self.cand_ph = np.log(np.abs(cz)), np.angle(cz)
        vector = {"entries": {str(i): [c.real, c.imag] for i, c in entries.items()}}
        orbit = {"space": {"kind": "lp", "p": 2},
                 "weights": {"family": "Constant", "value": 2.0},
                 "vector": vector, "exponents": "linear",
                 "horizon": sz["orbit_horizon"]}
        self.add_job("orbit ball", "orbit", dict(
            orbit, target={"kind": "ball", "center": {"basis": 1}, "radius": self.radius}))
        theta = float(self.rng.uniform(0.0, 2.0 * math.pi))
        self.add_job("orbit modulus", "orbit", dict(
            orbit, rotation=[math.cos(theta), math.sin(theta)],
            target={"kind": "modulus_exceeds", "index": 1, "threshold": 0.1}))
        horizon = sz["density_horizon"]
        # hit times: a Bernoulli(0.3) set with a seeded sparse stretch
        mask = self.rng.random(horizon) < 0.3
        lo = int(self.rng.integers(horizon // 10, horizon // 2))
        mask[lo : lo + horizon // 20] &= self.rng.random(horizon // 20) < 0.2
        self.times = np.flatnonzero(mask).astype(np.int64) + 1
        self.add_job("density", "density",
                     {"times": self.times.tolist(), "q": 1, "horizon": horizon})
        self.nseq = [1, 2, 3, 4, 5]
        self.add_job("jsets", "jsets", {"nseq": self.nseq, "horizon": sz["jsets_horizon"]})

    def check(self, outcomes):
        res = Checked()
        for out in outcomes:
            allowed = (0, 2) if out.name == "jsets" else (0,)
            if not self.cli_ok(res, out, allowed=allowed):
                continue
            try:
                if out.name.startswith("orbit"):
                    self._check_orbit(res, out)
                elif out.name == "density":
                    self._check_density(res, out)
                else:
                    self._check_jsets(res, out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                res.fail(out.name, f"malformed output: {exc}")
        return res

    def _orbit_at(self, n: int):
        return backward_orbit(self.cand_idx, self.cand_lm, self.cand_ph, "Constant", 2.0, n)

    def _check_orbit(self, res, out):
        op = out.name
        m = _HITS.search(out.stdout)
        if m is None:
            raise ValueError("summary line missing")
        with open(self.job_file(op, "orbit_events.jsonl"), encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
        horizon = self.sizes["orbit_horizon"]
        if [e["n"] for e in events] != list(range(1, horizon + 1)):
            raise ValueError("orbit_events.jsonl does not cover the horizon")
        _, rows = read_csv(self.job_file(op, "hits.csv"))
        hits = [int(r[0]) for r in rows]
        if hits != [e["exponent"] for e in events if e["hit"]] or int(m.group(1)) != len(hits):
            res.fail(op, "hits.csv, event log and summary disagree")
            return
        if op == "orbit ball":
            for e in events:
                if e["hit"] != (e["value"] < self.radius):
                    res.fail(op, f"hit flag at n={e['n']} disagrees with its value")
                    return
            rng = np.random.default_rng([self.seed, 7])
            for n in rng.choice(horizon, size=min(SAMPLE_CHECKS, horizon), replace=False) + 1:
                oi, ov = self._orbit_at(int(n))
                mine = distance_to("lp", oi, ov, {1: 1.0})
                if abs(mine - events[n - 1]["value"]) > VALUE_RTOL * max(1.0, mine):
                    res.check_errors.append(f"{op}: value at n={n} recomputed as {mine!r}")
                    break
        else:
            # |y_1| at time n is 2^n |x_{n+1}|, whatever the rotation
            ns = np.arange(1, horizon + 1)
            lm = np.full(horizon + 2, -np.inf)
            sel = self.cand_idx <= horizon + 1
            lm[self.cand_idx[sel]] = self.cand_lm[sel]
            y1 = lm[ns + 1] + ns * math.log(2.0)
            mine = y1 > math.log(0.1)
            if not np.array_equal(mine, np.array([e["hit"] for e in events])):
                res.check_errors.append(f"{op}: hit flags differ from 2^n |x_(n+1)| > 0.1")
        res.fingerprint[f"{op} hits"] = len(hits)
        res.fingerprint[f"{op} density"] = m.group(2)
        res.fingerprint[f"{op} hits csv"] = sha256_file(self.job_file(op, "hits.csv"))
        res.fingerprint[f"{op} events jsonl"] = sha256_file(
            self.job_file(op, "orbit_events.jsonl"))

    def _check_density(self, res, out):
        op = out.name
        m = _DENSITY.search(out.stdout)
        if m is None:
            raise ValueError("summary line missing")
        horizon = self.sizes["density_horizon"]
        ns = np.arange(1, horizon + 1, dtype=np.int64)
        counts = np.searchsorted(self.times, ns, side="right")
        ps = counts / ns
        burn = max(1, math.ceil(math.sqrt(horizon)))
        value = float(ps[burn - 1 :].min())
        path = self.job_file(op, "density_profile.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines[0] != "N,count,p_N" or len(lines) != horizon + 2 or lines[-1] != "":
            raise ValueError("density_profile.csv shape")
        if (
            m.group(1) != f"{value:.6g}" or int(m.group(2)) != burn
            or int(m.group(3)) != len(self.times)
        ):
            res.check_errors.append(f"{op}: estimate {m.group(1)} != recomputed {value:.6g}")
        rng = np.random.default_rng([self.seed, 11])
        for i in list(rng.choice(horizon, size=min(256, horizon), replace=False)) + [horizon - 1]:
            want = f"{i + 1},{counts[i]},{float(ps[i])!r}"
            if lines[i + 1] != want:
                res.check_errors.append(f"{op}: profile row {lines[i + 1]!r} != {want!r}")
                break
        res.fingerprint[f"{op} estimate"] = m.group(1)
        res.fingerprint[f"{op} hit times"] = len(self.times)
        res.fingerprint[f"{op} profile csv"] = sha256_file(path)

    def _check_jsets(self, res, out):
        op = out.name
        _, rows = read_csv(self.job_file(op, "jsets.csv"))
        label = np.array([int(r[0]) for r in rows], dtype=np.int64)
        elem = np.array([int(r[1]) for r in rows], dtype=np.int64)
        nk = np.asarray(self.nseq, dtype=np.int64)[label - 1]
        order = np.argsort(elem, kind="stable")
        e, t = elem[order], nk[order]
        # consecutive gaps telescope: e_j - e_i >= t_i + t_j for all i < j
        separated = bool(np.all(np.diff(e) >= t[:-1] + t[1:])) and bool(np.all(e >= t))
        _, drows = read_csv(self.job_file(op, "jsets_densities.csv"))
        horizon = self.sizes["jsets_horizon"]
        want = [
            float(np.sum(label == k)) / horizon for k in range(1, len(self.nseq) + 1)
        ]
        if [float(r[1]) for r in drows] != want:
            res.check_errors.append(f"{op}: class densities differ from counts/horizon")
        if not separated:
            res.check_errors.append(f"{op}: classes are not separated")
        if out.code != 0:
            # the generator's classes are separated by construction
            res.wrong.append(f"{op} verify")
        res.fingerprint[f"{op} elements"] = len(rows)
        res.fingerprint[f"{op} csv"] = sha256_file(self.job_file(op, "jsets.csv"))
        res.fingerprint[f"{op} densities csv"] = sha256_file(
            self.job_file(op, "jsets_densities.csv"))


WORKLOADS = {w.name: w for w in (CriterionGrid, ConstructVerify, OrbitDensity)}
