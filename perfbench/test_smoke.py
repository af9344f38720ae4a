"""Smoke test of the benchmark's own code, at tiny sizes:

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each workload prints every declared metric with its unit in
both modes, that the oracle counters rise on planted wrong outputs (so a
zero cannot pass vacuously), and that the benchmark refuses to report a
result when the program's sources are absent.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracles as orc  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, extra=("--tiny",)):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_workloads_match_spec():
    assert NAMES == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0


def one_pass(tmp_path, name):
    work = wl.WORKLOADS[name](3, str(tmp_path), wl.TINY)
    return work.check(work.run_pass())


def test_planted_wrong_verdict_and_bad_sum_are_counted(tmp_path, monkeypatch):
    base = one_pass(tmp_path / "base", "criterion-grid")
    real = wl.criterion.series_probe

    def flipped(*args, **kwargs):
        v = real(*args, **kwargs)
        if v.kind == orc.CONVERGES:
            return dataclasses.replace(v, kind=orc.DIVERGES)
        return v

    monkeypatch.setattr(wl.criterion, "series_probe", flipped)
    wrong = one_pass(tmp_path / "wrong", "criterion-grid")
    assert len(wrong.wrong) > len(base.wrong)

    def off_by_1e6(*args, **kwargs):
        v = real(*args, **kwargs)
        if v.kind == orc.CONVERGES:
            return dataclasses.replace(v, sum_estimate=v.sum_estimate * (1 + 1e-6))
        return v

    monkeypatch.setattr(wl.criterion, "series_probe", off_by_1e6)
    bad = one_pass(tmp_path / "bad", "criterion-grid")
    assert len(bad.bad_sums) > len(base.bad_sums)


def test_planted_criterion_wrong_verdict_is_counted(tmp_path, monkeypatch):
    import shiftlab.criterion as crit

    base = one_pass(tmp_path / "base", "criterion-grid")
    monkeypatch.setattr(crit, "_overall", lambda entries: crit.FAILS)
    planted = one_pass(tmp_path / "planted", "criterion-grid")
    sweep = [w for w in planted.wrong if w.startswith("sweep")]
    assert len(sweep) > len([w for w in base.wrong if w.startswith("sweep")])


def test_planted_return_bound_violation_is_counted(tmp_path, monkeypatch):
    import shiftlab.constructor as ctor

    base = one_pass(tmp_path / "base", "construct-verify")
    # a bound far below every error (alpha must still decrease in k)
    monkeypatch.setattr(ctor.EpsilonSchedule, "alpha", lambda self, k: 1e-12 / k)
    planted = one_pass(tmp_path / "planted", "construct-verify")
    assert not planted.failed
    assert sum(planted.eq33_violations.values()) > sum(base.eq33_violations.values())


def test_crash_is_a_failed_operation(tmp_path, monkeypatch):
    import shiftlab.cli as cli

    def boom(config, args):
        raise RuntimeError("planted")

    monkeypatch.setitem(cli.SCENARIOS, "jsets", boom)
    res = one_pass(tmp_path, "orbit-density")
    assert [op for op, _ in res.failed] == ["jsets"] and res.attempted == 4


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), NAMES[0], 0, extra=())
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracle_table_matches_mpmath():
    pytest.importorskip("mpmath")
    for name, fresh, stored in orc._recompute():
        assert abs(fresh - stored) <= 1e-15 * abs(stored), name
