"""The CI workflow parses and keeps its limits."""

import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_workflow_parses_and_keeps_its_limits():
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as fh:
        wf = yaml.safe_load(fh)
    assert wf["concurrency"] == {"group": "${{ github.ref }}", "cancel-in-progress": True}
    job = wf["jobs"]["tests"]
    assert job["timeout-minutes"] == 30
    runs = {step.get("name"): step.get("run", "") for step in job["steps"]}
    assert '"numpy==2.4.*"' in runs["Install dependencies"]
    assert "pyyaml" in runs["Install dependencies"].split()
    assert "--durations=10" in runs["Tier-1 tests"]
    assert "perfbench/test_smoke.py" in runs["Benchmark smoke test"]
